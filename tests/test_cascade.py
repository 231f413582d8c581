"""The cascade formula against a 40-digit mpmath matrix exponential.

A generator without upward rates (the vacuum, or a thermal bath whose
coth(omega/2T) rounds to 1) is the cascade E -> A -> G, E -> S -> G. Its
closed form must stay exact for every lam in [-1, 1], the ends included,
and at late times, where exp(-u) underflows.
"""

import numpy as np
import pytest

from conftest import mp_expm_populations, mp_reference_state, state_distance
from massbath import (
    FieldBathConfig,
    GklsCoefficients,
    XState,
    build_rate_matrix,
    closed_form_trajectory,
    eigen_trajectory,
    random_xstate,
    thermal_coefficients,
)
from massbath.xstate import CLOSED_FORM, EigenPropagator

LAMS = (-1.0, -1.0 + 1e-12, -1.0 + 1e-6, 0.0, 1.0 - 1.5e-6, 1.0 - 1e-9, 1.0)
US = (0.0, 1e-6, 0.3, 2.0, 30.0, 300.0, 3000.0)


def cascade_generator(d_a: float, d_s: float) -> np.ndarray:
    return np.array(
        [
            [0.0, d_a, d_s, 0.0],
            [0.0, -d_a, 0.0, d_a],
            [0.0, 0.0, -d_s, d_s],
            [0.0, 0.0, 0.0, -(d_a + d_s)],
        ]
    )


@pytest.mark.parametrize("lam", LAMS)
def test_closed_form_trajectory_matches_mpmath(lam, rng):
    # In u = gray*Gamma0*tau the vacuum is the cascade with d_a = 1 - lam and
    # d_s = 1 + lam; gray = Gamma0 = 1 makes tau = u.
    gen = cascade_generator(1.0 - lam, 1.0 + lam)
    for state in (XState.excited(), random_xstate(rng), random_xstate(rng)):
        traj = closed_form_trajectory(state, lam, 1.0, 1.0, US)
        for u, got in traj:
            expected = mp_expm_populations(gen, state.populations(), u)
            assert np.max(np.abs(got.populations() - expected)) < 1e-12
            assert abs(got.coh_ge - state.coh_ge * np.exp(-u)) < 1e-15


@pytest.mark.parametrize("lam", LAMS)
def test_propagator_takes_the_cascade_route(lam, rng):
    rates = build_rate_matrix(
        GklsCoefficients(a1=0.25, b1=0.25, a2=0.25 * lam, b2=0.25 * lam)
    )
    prop = EigenPropagator(rates)
    assert prop.routes[0] == CLOSED_FORM
    pops0 = random_xstate(rng).populations()
    got = prop.populations(pops0, np.array(US))[0]
    for u, row in zip(US, got):
        expected = mp_expm_populations(rates.generator, pops0, u)
        assert np.max(np.abs(row - expected)) < 1e-12


def test_cold_thermal_cell_is_a_cascade(rng):
    # At T/omega = 0.02, coth(omega/2T) = coth(25) rounds to 1: no upward
    # rates survive and the thermal generator is the vacuum's.
    config = FieldBathConfig.from_ratios(0.6, 0.05, 0.02)
    coeffs = thermal_coefficients(config)
    assert coeffs.a1 == coeffs.b1
    rates = build_rate_matrix(coeffs)
    state = random_xstate(rng)
    taus = np.array([0.0, 0.7, 20.0, 900.0, 3000.0])
    traj = eigen_trajectory(state, rates, taus)
    assert traj.method == CLOSED_FORM
    for tau, got in traj:
        assert state_distance(got, mp_reference_state(rates, state, tau)) < 1e-12
