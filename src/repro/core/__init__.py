"""The Willow controller (paper Sec. IV): hierarchical, unidirectional
supply/demand coordination with thermal-aware budgets, FFDLR demand
matching, margin-guarded migrations and consolidation.

Public entry points:

* :class:`~repro.core.config.WillowConfig` -- all tunables with the
  paper's defaults.
* :class:`~repro.core.controller.WillowController` -- builds the full
  simulated data center (tree + switches + workload + thermal state)
  and runs the discrete-time control loop on the DES kernel.
* :func:`~repro.core.controller.run_willow` -- one-call convenience
  wrapper returning a :class:`~repro.metrics.collector.MetricsCollector`.
"""

from repro.core.config import WillowConfig
from repro.core.events import (
    ControlMessage,
    Drop,
    Migration,
    MigrationCause,
)
from repro.core.state import NodeRuntime, ServerRuntime, SleepState
from repro.core.deficits import power_deficit, power_imbalance, power_surplus
from repro.core.controller import WillowController, run_willow

__all__ = [
    "ControlMessage",
    "Drop",
    "Migration",
    "MigrationCause",
    "NodeRuntime",
    "ServerRuntime",
    "SleepState",
    "WillowConfig",
    "WillowController",
    "power_deficit",
    "power_imbalance",
    "power_surplus",
    "run_willow",
]
