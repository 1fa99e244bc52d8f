"""Desk-scale laboratory for policy optimization over masked-diffusion
sequence policies: rollouts with cached-logit branching, one-step
surrogate likelihoods, step-wise and terminal group losses, and oracles
that verify the gradient identities and variance behavior by enumeration
and Monte Carlo.
"""

__version__ = "0.1.0"

from .counters import OpCounters
from .errors import ConfigurationError, ContractViolation, DivergenceError
from .objective import (
    LossConfig,
    SamplerConfig,
    aggregate_step_loss,
    combined_loss,
    kl_penalty,
    step_loss,
    terminal_loss,
)
from .policy import (
    LinearArch,
    MlpArch,
    PolicyParams,
    action_logprob,
    init_params,
    load_policy,
    sample_action,
    save_policy,
)
from .rollout import Trajectory, UnmaskSchedule, branch, rollout
from .sequences import MaskedSequence, Vocab, enumerate_actions, fill
from .streams import stream
from .surrogate import (
    SurrogateConfig,
    state_surrogate_grad,
    state_surrogate_logprob,
)
from .tasks import Task, first_violation_time, make_task
from .trainer import (
    EvalResult,
    OptimizerConfig,
    PolicyConfig,
    RunConfig,
    TrainResult,
    config_from_dict,
    count_ops,
    evaluate,
    predict_run_totals,
    train,
)
from .verify import (
    OracleProblem,
    VarianceCondition,
    VarianceReport,
    WeightedStates,
    bootstrap_ci,
    build_oracle_problem,
    perturb_params,
    prop1_check,
    prop2_check,
    theorem1_check,
    theorem2_check,
    trcov_estimate,
    trcov_protocol,
)

__all__ = [
    "__version__",
    "ConfigurationError",
    "ContractViolation",
    "DivergenceError",
    "EvalResult",
    "LinearArch",
    "LossConfig",
    "MaskedSequence",
    "MlpArch",
    "OpCounters",
    "OptimizerConfig",
    "OracleProblem",
    "PolicyConfig",
    "PolicyParams",
    "RunConfig",
    "SamplerConfig",
    "SurrogateConfig",
    "Task",
    "TrainResult",
    "Trajectory",
    "UnmaskSchedule",
    "VarianceCondition",
    "VarianceReport",
    "Vocab",
    "WeightedStates",
    "action_logprob",
    "aggregate_step_loss",
    "bootstrap_ci",
    "branch",
    "build_oracle_problem",
    "combined_loss",
    "config_from_dict",
    "count_ops",
    "enumerate_actions",
    "evaluate",
    "fill",
    "first_violation_time",
    "init_params",
    "kl_penalty",
    "load_policy",
    "make_task",
    "perturb_params",
    "predict_run_totals",
    "prop1_check",
    "prop2_check",
    "rollout",
    "sample_action",
    "save_policy",
    "state_surrogate_grad",
    "state_surrogate_logprob",
    "step_loss",
    "stream",
    "terminal_loss",
    "theorem1_check",
    "theorem2_check",
    "train",
    "trcov_estimate",
    "trcov_protocol",
]
