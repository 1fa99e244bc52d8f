"""Monotone operation counters for compute accounting.

A counter object is threaded through rollouts and loss evaluations; every
policy forward pass lands in exactly one bucket, so measured totals can be
compared against the closed-form predictions in ``trainer.count_ops``.
``surrogate_terminal_calls`` and ``surrogate_step_calls`` count the
current/old-policy ratio evaluations only; forwards made for the KL
reference policy go to ``surrogate_kl_calls`` so the ratio buckets keep
their budget-table meaning.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields


@dataclass
class OpCounters:
    rollout_forward_passes: int = 0
    optimizer_steps: int = 0
    reward_evals: int = 0
    surrogate_terminal_calls: int = 0
    surrogate_step_calls: int = 0
    surrogate_kl_calls: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)

    def scaled(self, factor: int) -> "OpCounters":
        return OpCounters(**{f.name: getattr(self, f.name) * factor for f in fields(self)})
