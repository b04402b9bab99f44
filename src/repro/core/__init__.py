"""The paper's contribution: AS-level attacks on Tor and countermeasures.

- :mod:`repro.core.anonymity` — §3.1's analytical compromise model.
- :mod:`repro.core.temporal` — §3.1/§4: exposure growth under BGP dynamics.
- :mod:`repro.core.interception` — §3.2: hijack/interception attack planning
  against the Tor relay population.
- :mod:`repro.core.asymmetric` — §3.3: correlation of data bytes against
  cumulative ACKed bytes, in any direction combination.
- :mod:`repro.core.surveillance` — which ASes can correlate which circuits,
  under symmetric/asymmetric/attack-augmented observation.
- :mod:`repro.core.countermeasures` — §5: dynamics-aware relay selection,
  hijack monitoring, short-AS-PATH preference.
- :mod:`repro.core.population` — population-scale user simulation (the
  "Users get routed" question at 10^6+ clients).
"""

from repro.core.anonymity import (
    compromise_probability,
    guard_amplification,
    expected_compromise_time,
)
from repro.core.asymmetric import (
    pearson,
    spearman,
    correlate_captures,
    correlate_segments,
    FlowMatcher,
)
from repro.core.surveillance import SurveillanceModel, ObservationMode
from repro.core.temporal import (
    exposure_over_time,
    compromise_trajectory,
    static_guard_exposure,
)
from repro.core.interception import TargetRanking, AttackPlanner
from repro.core.countermeasures import (
    PrefixMonitor,
    MonitorConfig,
    dynamics_aware_filter,
    short_path_guard_weights,
    short_path_guard_weights_from_graph,
)
from repro.core.convergence import ConvergenceExposure, measure_convergence_exposure
from repro.core.secure_selection import (
    AttackSchedule,
    MonitoringFramework,
    evaluate_secure_selection,
)
from repro.core.guard_inference import CongestionProbe, ProbeSchedule
from repro.core.resilience import (
    compute_resilience,
    blended_guard_weights,
    evaluate_selection,
)
from repro.core.population import (
    PopulationAggregate,
    PopulationReport,
    UserOutcome,
    simulate_population,
)
from repro.core.usermetrics import simulate_user_population

__all__ = [
    "compromise_probability",
    "guard_amplification",
    "expected_compromise_time",
    "pearson",
    "spearman",
    "correlate_captures",
    "correlate_segments",
    "FlowMatcher",
    "SurveillanceModel",
    "ObservationMode",
    "exposure_over_time",
    "compromise_trajectory",
    "static_guard_exposure",
    "TargetRanking",
    "AttackPlanner",
    "PrefixMonitor",
    "MonitorConfig",
    "dynamics_aware_filter",
    "short_path_guard_weights",
    "short_path_guard_weights_from_graph",
    "ConvergenceExposure",
    "measure_convergence_exposure",
    "AttackSchedule",
    "MonitoringFramework",
    "evaluate_secure_selection",
    "CongestionProbe",
    "ProbeSchedule",
    "compute_resilience",
    "blended_guard_weights",
    "evaluate_selection",
    "PopulationAggregate",
    "PopulationReport",
    "UserOutcome",
    "simulate_population",
    "simulate_user_population",
]
