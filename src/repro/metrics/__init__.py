"""Measurement: per-tick time series, stability checks, convergence.

* :mod:`repro.metrics.collector` -- the :class:`MetricsCollector` every
  controller writes into; exposes the series behind Figs. 5-12 and
  15-19.
* :mod:`repro.metrics.table` -- :class:`Table`, the per-field column
  storage behind each of the collector's row tables.
* :mod:`repro.metrics.stability` -- ping-pong detection and the
  Property-4 residence-time check.
* :mod:`repro.metrics.convergence` -- delta-convergence estimation and
  the O(log n) decision-complexity measurement (Sec. V-A).
* :mod:`repro.metrics.summary` -- aggregation helpers shared by the
  experiment harness.
* :mod:`repro.metrics.federation` -- per-site + global aggregation for
  federated runs.
"""

from repro.metrics.collector import MetricsCollector, ServerSample, SwitchSample
from repro.metrics.federation import FederationSummary, summarize_federation
from repro.metrics.stability import (
    count_ping_pongs,
    min_residence_time,
    residence_times,
)
from repro.metrics.convergence import (
    decision_time_scaling,
    propagation_delay,
    recommended_delta_d,
)
from repro.metrics.summary import (
    RunSummary,
    mean_by_server,
    series_by_server,
    summarize_run,
)

__all__ = [
    "FederationSummary",
    "MetricsCollector",
    "RunSummary",
    "summarize_federation",
    "summarize_run",
    "ServerSample",
    "SwitchSample",
    "count_ping_pongs",
    "decision_time_scaling",
    "mean_by_server",
    "min_residence_time",
    "propagation_delay",
    "recommended_delta_d",
    "residence_times",
    "series_by_server",
]
