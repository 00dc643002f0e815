"""Locality toolkit: hidden-variable models, Bell statistics, path sums.

Four pillars:

* ``hv_models`` -- deterministic local models (instruction sets, clocks)
  whose outcomes depend only on the shared source draw and the local
  setting;
* ``bell_stats`` / ``oracle`` -- correlation estimators, the CHSH quantity
  and two-setting Bell inequality, and the closed-form quantum predictions
  they are compared against;
* ``path_engine`` / ``interferometer`` -- discrete actions, time-sliced
  propagators, phasor resultants, and a two-sided interferometer whose
  outcomes come from per-side path interference, tabulated by
  ``correlation_scan`` and, for single-path sides, ``degenerate_exact_scan``;
* ``harness`` -- a three-process wire protocol that enforces no-signaling
  by isolation and makes it auditable from logs.
"""

from .bell_stats import (
    BellCheck,
    ChshResult,
    CorrelationEstimate,
    ProbabilityEstimate,
    agreement_prob,
    bell_check,
    chsh,
    estimate_E,
    exact_E,
    exact_agreement_prob,
    exact_overall_agreement,
    merge_estimates,
    overall_agreement,
)
from .config import ConfigError, model_from_file, model_from_mapping
from .hv_models import (
    ALIGNED,
    ALL_INSTRUCTION_SETS,
    ANTI_ALIGNED,
    ClockModel,
    InstructionSet,
    LhvModel,
    MerminModel,
    Setting,
    threshold_sign,
)
from .interferometer import (
    ScanRow,
    SideConfig,
    UNDETERMINED,
    correlation_scan,
    degenerate_exact_scan,
)
from .oracle import chsh_quantum, mermin_agreement_prob, rt_coincidence_prob, singlet_E
from .path_engine import (
    FREE,
    PathSample,
    Potential,
    PropagatorResult,
    PropagatorSpec,
    Resultant,
    analytic_propagator,
    discrete_action,
    harmonic,
    resultant,
    sample_paths,
    sliced_propagator,
)

__version__ = "0.1.0"
