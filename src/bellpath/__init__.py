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

The names below are imported from their modules on first use (PEP 562), so
``import bellpath`` loads no module, and a process that uses only the wire
protocol with a clock model (``bellpath wing``) never loads numpy.
"""

import importlib

#: public name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys((
        "BellCheck", "ChshResult", "CorrelationEstimate", "ProbabilityEstimate",
        "agreement_prob", "bell_check", "chsh", "estimate_E", "exact_E",
        "exact_agreement_prob", "exact_overall_agreement", "merge_estimates",
        "overall_agreement"), "bell_stats"),
    **dict.fromkeys(("ConfigError", "model_from_file", "model_from_mapping"), "config"),
    **dict.fromkeys((
        "ALIGNED", "ALL_INSTRUCTION_SETS", "ANTI_ALIGNED", "ClockModel", "InstructionSet",
        "LhvModel", "MerminModel", "Setting", "threshold_sign"), "hv_models"),
    **dict.fromkeys((
        "ScanRow", "SideConfig", "UNDETERMINED", "correlation_scan",
        "degenerate_exact_scan"), "interferometer"),
    **dict.fromkeys((
        "chsh_quantum", "mermin_agreement_prob", "rt_coincidence_prob", "singlet_E"), "oracle"),
    **dict.fromkeys((
        "FREE", "PathSample", "Potential", "PropagatorResult", "PropagatorSpec", "Resultant",
        "analytic_propagator", "discrete_action", "harmonic", "resultant", "sample_paths",
        "sliced_propagator"), "path_engine"),
}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
