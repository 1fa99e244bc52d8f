"""Toy reward tasks: 4x4 Sudoku and string match.

Every instance class carries ``vocab``, ``completion_len``,
``prompt_tokens()``, ``reward(tokens)``, ``to_json()``/``from_json(d)``
(its instances-file entry) and ``generate(rng, **params)``, which draws a
random instance from the task's own params.  A reward maps a ``(..., L)``
array of completion tokens to a ``(...)`` float array: per row, the
fraction of positions that match the target tokens the instance stores
once, a deterministic score in [0, 1] (a NumPy float for one row).
Rewards never raise on malformed completions: a row of the wrong length
scores zero.  ``TASKS`` maps task names to instance classes;
``make_task`` generates a pool through it and ``instance_pool`` builds a
``Task`` from instances of one shape.

Sudoku: one token per cell.  Vocab has 5 ordinary tokens (digit d is
token d-1, blank marker 4), so prompts stay fully visible.  The
completion has one token per originally empty cell, row-major; reward is
the fraction of those cells filled with the solution digit.

String match: the prompt is the target itself; reward is the fraction of
completion positions matching it (a copy task, useful as the simplest
optimization target).
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigurationError, ContractViolation, read_json
from .rollout import Trajectory
from .sequences import MaskedSequence, Vocab

SUDOKU_VOCAB = Vocab(5)
SUDOKU_BLANK = 4

_ROWS = [tuple(range(4 * r, 4 * r + 4)) for r in range(4)]
_COLS = [tuple(range(c, 16, 4)) for c in range(4)]
_BOXES = [
    (0, 1, 4, 5), (2, 3, 6, 7), (8, 9, 12, 13), (10, 11, 14, 15),
]
SUDOKU_UNITS = _ROWS + _COLS + _BOXES
_PEERS = tuple(  # per cell, a getter of its row, column and box mates' values on a board
    operator.itemgetter(*sorted({c for unit in SUDOKU_UNITS if i in unit for c in unit} - {i}))
    for i in range(16)
)


def _json_ints(name: str, values) -> tuple[int, ...]:
    """``values`` as a tuple of JSON integers: a float, string or bool raises, naming ``name``."""
    bad = [v for v in values if type(v) is not int]
    if bad:
        raise ContractViolation(f"{name}: {bad[0]!r} is not an integer")
    return tuple(values)


def _match_fraction(completion, target: np.ndarray) -> np.ndarray:
    """Per row of a ``(..., L)`` token array, the fraction of positions equal to ``target``."""
    tokens = np.asarray(completion)
    if tokens.shape[-1] != len(target):
        return np.zeros(tokens.shape[:-1])[()]
    if not len(target):
        return np.ones(tokens.shape[:-1])[()]
    return (tokens == target).sum(axis=-1) / len(target)


def sudoku_valid_solution(cells: tuple[int, ...]) -> bool:
    if len(cells) != 16:
        return False
    return all(sorted(cells[i] for i in unit) == [1, 2, 3, 4] for unit in SUDOKU_UNITS)


@dataclass(frozen=True)
class SudokuInstance:
    """A 4x4 puzzle: 0 marks an empty cell; the stored solution is unique."""

    grid: tuple[int, ...]
    solution: tuple[int, ...]
    _empty: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _target: np.ndarray = field(init=False, repr=False, compare=False)

    vocab = SUDOKU_VOCAB

    def __post_init__(self) -> None:
        if len(self.grid) != 16 or len(self.solution) != 16:
            raise ContractViolation("grid and solution must have 16 cells")
        if not sudoku_valid_solution(self.solution):
            raise ContractViolation("solution violates the one-per-unit constraints")
        for g, s in zip(self.grid, self.solution):
            if g != 0 and g != s:
                raise ContractViolation("givens must agree with the solution")
        object.__setattr__(self, "_empty", tuple(i for i, v in enumerate(self.grid) if v == 0))
        # the solution's token at each empty cell, which a completion must match
        object.__setattr__(self, "_target", np.array([self.solution[c] - 1 for c in self._empty]))

    def empty_cells(self) -> tuple[int, ...]:
        return self._empty

    @property
    def completion_len(self) -> int:
        return len(self.empty_cells())

    def prompt_tokens(self) -> tuple[int, ...]:
        return tuple(v - 1 if v != 0 else SUDOKU_BLANK for v in self.grid)

    def reward(self, completion) -> np.ndarray:
        """Fraction of the originally empty cells filled with the solution digit, per row."""
        return _match_fraction(completion, self._target)

    @classmethod
    def generate(cls, rng: np.random.Generator, n_empty: int = 8) -> "SudokuInstance":
        """A random puzzle with exactly ``n_empty`` empty cells and a unique solution."""
        if not 1 <= n_empty <= 12:
            raise ConfigurationError("n_empty must lie in 1..12 for unique 4x4 puzzles")
        for _ in range(64):
            solution = next(_solutions((0,) * 16, rng))
            cells = list(solution)
            removed = 0
            for idx in rng.permutation(16):
                if removed == n_empty:
                    break
                i = int(idx)
                saved, cells[i] = cells[i], 0
                if count_solutions(tuple(cells)) == 1:
                    removed += 1
                else:
                    cells[i] = saved
            if removed == n_empty:
                return cls(tuple(cells), solution)
        raise ConfigurationError(f"could not build a unique puzzle with {n_empty} empty cells")

    def to_json(self) -> dict:
        return {"grid": list(self.grid), "solution": list(self.solution)}

    @classmethod
    def from_json(cls, d: dict) -> "SudokuInstance":
        return cls(_json_ints("grid", d["grid"]), _json_ints("solution", d["solution"]))


def _board_violates(cells: list[int]) -> bool:
    for unit in SUDOKU_UNITS:
        seen = set()
        for c in unit:
            v = cells[c]
            if v == 0:
                continue
            if v not in (1, 2, 3, 4) or v in seen:
                return True
            seen.add(v)
    return False


def first_violation_time(instance: SudokuInstance, traj: Trajectory) -> int | None:
    """Smallest step whose committed tokens break a Sudoku constraint.

    The unmasked tokens of the state after step t are merged with the
    givens; a duplicate digit in any row/column/box, or a committed token
    that does not decode to a digit, is a violation.  Returns None if the
    whole trajectory stays consistent.
    """
    empty = instance.empty_cells()
    if traj.states.shape[-1] != len(empty):
        raise ContractViolation(f"state width {traj.states.shape[-1]} != {len(empty)} empty cells")
    mask_id = instance.vocab.mask_id
    for t, row in enumerate(traj.states[1:].tolist(), start=1):
        cells = list(instance.grid)
        for cell, tok in zip(empty, row):
            if tok != mask_id:
                cells[cell] = tok + 1 if 0 <= tok <= 3 else -1
        if _board_violates(cells):
            return t
    return None


def _can_place(cells: list[int], idx: int, digit: int) -> bool:
    return digit not in _PEERS[idx](cells)


def _solutions(
    grid: tuple[int, ...], rng: np.random.Generator | None = None
) -> Iterator[tuple[int, ...]]:
    """The completions of ``grid`` (0 = empty), by depth-first search over its
    empty cells; with ``rng``, each cell visit tries the digits in a fresh
    random order, else in order 1..4."""
    cells = list(grid)
    empty = [i for i, v in enumerate(cells) if v == 0]

    def fill(k: int) -> Iterator[tuple[int, ...]]:
        if k == len(empty):
            yield tuple(cells)
            return
        idx = empty[k]
        for digit in (1, 2, 3, 4) if rng is None else rng.permutation([1, 2, 3, 4]).tolist():
            if _can_place(cells, idx, digit):
                cells[idx] = digit
                yield from fill(k + 1)
        cells[idx] = 0

    return fill(0)


def count_solutions(grid: tuple[int, ...], cap: int = 2) -> int:
    """Number of completions of ``grid`` (0 = empty), counted up to ``cap``."""
    return sum(1 for _ in itertools.islice(_solutions(grid), cap))


@dataclass(frozen=True)
class StringMatchInstance:
    """Copy task: reproduce the target the prompt displays."""

    target: tuple[int, ...]
    vocab_size: int = 4
    _target: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.target:
            raise ContractViolation("target must be non-empty")
        if any(type(t) is not int or not 0 <= t < self.vocab_size for t in self.target):
            raise ContractViolation("target tokens must be ordinary tokens (integers)")
        object.__setattr__(self, "_target", np.array(self.target))

    @property
    def vocab(self) -> Vocab:
        return Vocab(self.vocab_size)

    @property
    def completion_len(self) -> int:
        return len(self.target)

    def prompt_tokens(self) -> tuple[int, ...]:
        return self.target

    def reward(self, completion) -> np.ndarray:
        """Fraction of positions matching the target per row; 0 on a length mismatch."""
        return _match_fraction(completion, self._target)

    @classmethod
    def generate(
        cls, rng: np.random.Generator, target_len: int = 8, vocab_size: int = 4
    ) -> "StringMatchInstance":
        """A uniformly random target of ``target_len`` ordinary tokens."""
        return cls(tuple(int(t) for t in rng.integers(0, vocab_size, target_len)), vocab_size)

    def to_json(self) -> dict:
        return {"target": list(self.target), "vocab_size": self.vocab_size}

    @classmethod
    def from_json(cls, d: dict) -> "StringMatchInstance":
        (vocab_size,) = _json_ints("vocab_size", [d.get("vocab_size", 4)])
        return cls(tuple(d["target"]), vocab_size)


Instance = SudokuInstance | StringMatchInstance
TASKS: dict[str, type] = {
    "sudoku": SudokuInstance,
    "stringmatch": StringMatchInstance,
}


@dataclass(frozen=True)
class RewardFn:
    """Terminal scorer bound to one instance: the one call every reward goes through."""

    instance: Instance

    def __call__(self, completion) -> np.ndarray:
        return self.instance.reward(completion)


@dataclass(frozen=True)
class TaskInstance:
    prompt: MaskedSequence
    reward: RewardFn


@dataclass(frozen=True)
class Task:
    """A vocab, fixed prompt/completion lengths, and a pool of instances."""

    name: str
    vocab: Vocab
    prompt_len: int
    completion_len: int
    instances: tuple[TaskInstance, ...]


def instance_pool(name: str, instances: Sequence[Instance]) -> Task:
    """The ``Task`` over ``instances``, which must share a vocab and both lengths."""
    if not instances:
        raise ConfigurationError("a task needs at least one instance")
    shapes = [(inst.vocab, len(inst.prompt_tokens()), inst.completion_len) for inst in instances]
    vocab, plen, clen = shapes[0]
    for i, (v, p, c) in enumerate(shapes):
        if (v, p, c) != shapes[0]:
            raise ConfigurationError(
                f"instance {i} has vocab size {v.size} and prompt/completion lengths {p}/{c}; "
                f"instance 0 has {vocab.size} and {plen}/{clen}"
            )
    pool = tuple(
        TaskInstance(MaskedSequence(inst.prompt_tokens(), vocab), RewardFn(inst))
        for inst in instances
    )
    return Task(name, vocab, plen, clen, pool)


def make_task(name: str, rng: np.random.Generator, n_instances: int = 8, **params) -> Task:
    """Generate a pool of ``n_instances`` instances of task ``name`` for one run.

    ``params`` go to the instance class's ``generate``.  A param it does not
    take, or a value it rejects, raises ``ConfigurationError`` naming the task.
    """
    cls = TASKS.get(name)
    if cls is None:
        raise ConfigurationError(f"unknown task {name!r}")
    try:
        return instance_pool(name, [cls.generate(rng, **params) for _ in range(n_instances)])
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"task {name!r} with params {params}: {exc}") from exc


def save_instances(path: str | Path, task: Task) -> None:
    payload = {
        "task": task.name,
        "prompt_len": task.prompt_len,
        "completion_len": task.completion_len,
        "vocab_size": task.vocab.size,
        "instances": [ti.reward.instance.to_json() for ti in task.instances],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_instances(path: str | Path) -> Task:
    """Read a pool written by ``save_instances``.

    Any fault raises ``ConfigurationError`` naming the file, and the instance if there is one.
    """
    d = read_json(path)
    try:
        if not isinstance(d, dict) or not isinstance(d.get("instances"), list):
            raise ConfigurationError("expected an object with an 'instances' list")
        cls = TASKS.get(d.get("task"))
        if cls is None:
            raise ConfigurationError(f"unknown task {d.get('task')!r}")
        instances = []
        for i, item in enumerate(d["instances"]):
            try:
                instances.append(cls.from_json(item))
            except KeyError as exc:
                raise ConfigurationError(f"instance {i}: missing key {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(f"instance {i}: {exc}") from exc
        return instance_pool(d["task"], instances)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
