"""Closed-form quantum predictions used as comparison targets.

These are standard textbook formulas, not outputs of any model in this
package: the singlet correlation -cos(a-b), the instruction-set gedanken
agreement probabilities, and the two-particle interferometer coincidence
fringe in the phase sum.  They give the quantum side of every
classical-vs-quantum comparison the toolkit makes.
"""

from __future__ import annotations

import numpy as np

SQRT2 = float(np.sqrt(2.0))
TSIRELSON_BOUND = 2.0 * SQRT2


def singlet_E(a: float, b: float) -> float:
    """Spin-singlet correlation -cos(a - b) for analyzer angles a, b."""
    return float(-np.cos(a - b))


def mermin_agreement_prob(same_setting: bool | None = None) -> float:
    """Probability that both detectors flash the same color.

    ``same_setting=True`` gives 1 (identical settings must agree),
    ``False`` gives 1/4, and ``None`` gives the overall value 1/2 for
    settings chosen uniformly and independently on both sides:
    (3*1 + 6*(1/4)) / 9 = 1/2.
    """
    if same_setting is None:
        return 0.5
    return 1.0 if same_setting else 0.25


def rt_coincidence_prob(phi_a: float, phi_b: float) -> float:
    """Two-particle coincidence fringe (1 + cos(phi_a + phi_b)) / 2.

    The fringe depends on the *sum* of the two sides' phase-shifter
    settings; that phase-sum convention is the entangled-pair signature the
    interferometer module's empirical tables are compared against.
    """
    return float(0.5 * (1.0 + np.cos(phi_a + phi_b)))


def chsh_quantum(a: float, a_prime: float, b: float, b_prime: float) -> float:
    """CHSH combination of singlet correlations.

    S = E(a,b) + E(a',b) + E(a',b') - E(a,b'), the combination that the
    two-setting Bell argument bounds by 2 for any local model.  At
    (0, pi/2, pi/4, 3pi/4) it equals -2*sqrt(2).
    """
    return float(
        singlet_E(a, b)
        + singlet_E(a_prime, b)
        + singlet_E(a_prime, b_prime)
        - singlet_E(a, b_prime)
    )

