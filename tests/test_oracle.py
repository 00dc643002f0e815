import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bellpath import oracle

SQRT2_OVER_2 = 0.7071067811865476
TWO_SQRT2 = 2.8284271247461903


def test_singlet_trivial_values():
    assert oracle.singlet_E(0.0, 0.0) == -1.0
    assert abs(oracle.singlet_E(0.0, math.pi) - 1.0) < 1e-15


def test_singlet_derived_value():
    # -cos(pi/4), evaluated by hand
    assert abs(oracle.singlet_E(0.0, math.pi / 4) - (-SQRT2_OVER_2)) < 1e-15


def test_singlet_depends_only_on_difference():
    g = np.random.default_rng(1)
    for _ in range(50):
        a, b, c = g.uniform(0, 2 * math.pi, 3)
        assert abs(oracle.singlet_E(a, b) - oracle.singlet_E(a + c, b + c)) < 1e-12
        assert abs(oracle.singlet_E(a, b)) <= 1.0
        assert abs(oracle.singlet_E(a, b) - oracle.singlet_E(b, a)) < 1e-15


def test_mermin_agreement_values():
    assert oracle.mermin_agreement_prob(True) == 1.0
    assert oracle.mermin_agreement_prob(False) == 0.25
    assert oracle.mermin_agreement_prob(None) == 0.5
    # consistency: (3*1 + 6*1/4) / 9 = 1/2
    assert abs((3 * 1.0 + 6 * 0.25) / 9 - oracle.mermin_agreement_prob(None)) < 1e-15


def test_rt_fringe_values():
    assert oracle.rt_coincidence_prob(0.0, 0.0) == 1.0
    assert abs(oracle.rt_coincidence_prob(math.pi, 0.0)) < 1e-15
    # (1 + cos(pi/2)) / 2 = 1/2
    assert abs(oracle.rt_coincidence_prob(math.pi / 3, math.pi / 6) - 0.5) < 1e-15


def test_rt_fringe_depends_on_phase_sum():
    g = np.random.default_rng(2)
    for _ in range(50):
        pa, pb, c = g.uniform(0, 2 * math.pi, 3)
        assert abs(
            oracle.rt_coincidence_prob(pa, pb) - oracle.rt_coincidence_prob(pa + c, pb - c)
        ) < 1e-12


def test_chsh_quantum_canonical_quadruple():
    # four hand evaluations of -cos: (-s) + (-s) + (-s) - (+s) = -2*sqrt(2)
    s = oracle.chsh_quantum(0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)
    assert abs(s - (-TWO_SQRT2)) < 1e-12
    assert abs(abs(s) - TWO_SQRT2) < 1e-12


def test_chsh_quantum_degenerate_settings():
    # all-equal settings: E + E + E - E = 2E = -2
    assert abs(oracle.chsh_quantum(0, 0, 0, 0) - (-2.0)) < 1e-15


_SETTINGS = st.floats(-4.0 * math.pi, 4.0 * math.pi)


@settings(max_examples=2000, deadline=None)
@given(_SETTINGS, _SETTINGS, _SETTINGS, _SETTINGS)
def test_chsh_random_scan_respects_tsirelson(a, a_prime, b, b_prime):
    s = oracle.chsh_quantum(a, a_prime, b, b_prime)
    assert abs(s) <= oracle.TSIRELSON_BOUND + 1e-12
