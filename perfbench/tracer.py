"""Per-layer tracing of dispo from outside the package.

A ``Tracer`` wraps named functions of dispo's modules in every module
namespace that imported them (``rows_context`` lives in ``dispo.policy``
but is called through ``dispo.rollout``, ``dispo.surrogate`` and
``dispo.verify`` too), records one span per call, and restores every
original object on exit.  Spans stay in memory; ``spans_table`` hands
them out once the traced work is over.

Each wrapped function F gets a call count, a total time and a self time:
the span's duration minus the part covered by wrapped calls made inside
it.  A few targets also carry an observer that reads arguments or
results, for the ratios the benchmark reports (rows per forward, forwards
inside ``branch``, zero-advantage groups, clipping and checkpoint size).
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One traced function: ``module`` holds ``attr`` (``Class.method`` allowed)."""

    name: str  # metric prefix, e.g. "policy.rows_context"
    module: str
    attr: str


TARGETS: tuple[Target, ...] = (
    Target("sequences.MaskedSequence", "dispo.sequences", "MaskedSequence.__post_init__"),
    Target("sequences.fill", "dispo.sequences", "fill"),
    Target("policy.features", "dispo.policy", "_features"),
    Target("policy.rows_context", "dispo.policy", "rows_context"),
    Target("policy.sample_action", "dispo.policy", "sample_action"),
    Target("policy.backprop", "dispo.policy", "backprop"),
    Target("rollout.rollout", "dispo.rollout", "rollout"),
    Target("rollout.branch", "dispo.rollout", "branch"),
    Target("surrogate.pattern_contexts", "dispo.surrogate", "pattern_contexts"),
    Target("surrogate.logprob_from_contexts", "dispo.surrogate", "logprob_from_contexts"),
    Target("surrogate.draw_patterns", "dispo.surrogate", "draw_patterns"),
    Target("objective.combined_loss", "dispo.objective", "combined_loss"),
    Target("objective.terminal_loss", "dispo.objective", "terminal_loss"),
    Target("objective.aggregate_step_loss", "dispo.objective", "aggregate_step_loss"),
    Target("objective.step_loss", "dispo.objective", "step_loss"),
    Target("objective.kl_penalty", "dispo.objective", "kl_penalty"),
    Target("objective.clipped_objective", "dispo.objective", "clipped_objective"),
    Target("tasks.reward", "dispo.tasks", "RewardFn.__call__"),
    Target("tasks.make_task", "dispo.tasks", "make_task"),
    Target("streams.stream", "dispo.streams", "stream"),
    Target("trainer.train", "dispo.trainer", "train"),
    Target("trainer.update", "dispo.trainer", "update"),
    Target("trainer.save_checkpoint", "dispo.trainer", "save_checkpoint"),
    Target("verify.build_state_tables", "dispo.verify", "build_state_tables"),
    Target("verify.theorem1_check", "dispo.verify", "theorem1_check"),
    Target("verify.theorem2_check", "dispo.verify", "theorem2_check"),
    Target("verify.prop1_check", "dispo.verify", "prop1_check"),
    Target("verify.prop2_check", "dispo.verify", "prop2_check"),
    Target("verify.collect_states", "dispo.verify", "collect_states"),
    Target("verify.trcov_protocol", "dispo.verify", "trcov_protocol"),
    Target("verify.bootstrap_ci", "dispo.verify", "bootstrap_ci"),
)

CHECKPOINT_FILES = (
    "policy.bin",
    "policy.json",
    "reference.bin",
    "reference.json",
    "optimizer.npz",
    "train_state.json",
)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _all_equal(rewards) -> bool:
    values = [float(r) for _, r in rewards]
    return max(values) == min(values)


class Patches:
    """Replace an object in every dispo namespace that holds it; undo on restore."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, module: str, attr: str, make: Callable[[object], object]) -> None:
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        wrapper = make(original)
        if isinstance(owner, type):
            holders = [owner]  # a method: every caller finds it on the class
        else:
            holders = [
                mod
                for key, mod in sorted(sys.modules.items())
                if (key == "dispo" or key.startswith("dispo.")) and mod is not None
                and getattr(mod, leaf, None) is original
            ]
        for holder in holders:
            setattr(holder, leaf, wrapper)
            self._undo.append((holder, leaf, original))

    def restore(self) -> None:
        while self._undo:
            holder, leaf, original = self._undo.pop()
            setattr(holder, leaf, original)


class Tracer:
    """Spans and per-function statistics for the targets, while installed."""

    def __init__(self) -> None:
        self.keep_spans = True  # record spans; per-function statistics are kept regardless
        self.calls = {t.name: 0 for t in TARGETS}
        self.total_s = {t.name: 0.0 for t in TARGETS}
        self.self_s = {t.name: 0.0 for t in TARGETS}
        self.active = {t.name: 0 for t in TARGETS}
        self.extra = {
            "rows": 0,
            "branch_forwards": 0,
            "terminal_groups": 0,
            "terminal_zero_adv": 0,
            "step_groups": 0,
            "step_zero_adv": 0,
            "clipped": 0,
            "max_abs_log_rho": 0.0,
            "checkpoint_bytes": 0,
        }
        self.key = 0  # caller-set label for new spans: the update, trial or check index
        self._stack: list[list] = []  # [span id, child seconds]
        self._spans: list[tuple[int, float, float, int, int] | None] = []
        self._patches = Patches()

    # -- installation ----------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for target in TARGETS:
                self._patches.replace(
                    target.module, target.attr, functools.partial(self._wrap, target.name)
                )
        except BaseException:
            self._patches.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        observe = _OBSERVERS.get(name)
        stack = self._stack
        spans = self._spans
        name_id = list(self.calls).index(name)
        calls, total_s, self_s, active = self.calls, self.total_s, self.self_s, self.active
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = -1
            if self.keep_spans:
                span_id = len(spans)
                spans.append(None)  # filled in at exit; ids follow entry order
            parent = stack[-1][0] if stack else -1
            key = self.key
            frame = [span_id, 0.0]
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[name] -= 1
                stack.pop()
                duration = end - start
                calls[name] += 1
                total_s[name] += duration
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if span_id >= 0:
                    spans[span_id] = (name_id, start, end, parent, key)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def spans_table(self) -> dict:
        """Spans in entry order; ``parent`` is the row of the enclosing span (-1: none).

        Times are whole microseconds since the first span started; a call
        still open is null.
        """
        origin = next((row[1] for row in self._spans if row is not None), 0.0)
        rows = [
            None
            if row is None
            else [row[0], round(1e6 * (row[1] - origin)), round(1e6 * (row[2] - origin)), *row[3:]]
            for row in self._spans
        ]
        return {
            "names": list(self.calls),
            "columns": ["name", "start_us", "end_us", "parent", "key"],
            "rows": rows,
        }


def _observe_rows_context(tracer: Tracer, args, kwargs, result) -> None:
    tracer.extra["rows"] += len(result.positions)
    if tracer.active["rollout.branch"]:
        tracer.extra["branch_forwards"] += 1


def _observe_terminal_loss(tracer: Tracer, args, kwargs, result) -> None:
    tracer.extra["terminal_groups"] += 1
    tracer.extra["terminal_zero_adv"] += _all_equal(_arg(args, kwargs, 1, "completions"))


def _observe_step_loss(tracer: Tracer, args, kwargs, result) -> None:
    tracer.extra["step_groups"] += 1
    tracer.extra["step_zero_adv"] += _all_equal(_arg(args, kwargs, 1, "branches"))


def _observe_clipped_objective(tracer: Tracer, args, kwargs, result) -> None:
    rho = float(_arg(args, kwargs, 0, "rho"))
    _, unclipped_active = result
    tracer.extra["clipped"] += not unclipped_active
    tracer.extra["max_abs_log_rho"] = max(tracer.extra["max_abs_log_rho"], abs(math.log(rho)))


def _observe_save_checkpoint(tracer: Tracer, args, kwargs, result) -> None:
    out = _arg(args, kwargs, 0, "out_dir")
    tracer.extra["checkpoint_bytes"] += sum(
        os.path.getsize(os.path.join(out, f)) for f in CHECKPOINT_FILES
    )


_OBSERVERS = {
    "policy.rows_context": _observe_rows_context,
    "objective.terminal_loss": _observe_terminal_loss,
    "objective.step_loss": _observe_step_loss,
    "objective.clipped_objective": _observe_clipped_objective,
    "trainer.save_checkpoint": _observe_save_checkpoint,
}
